"""Per-arrow reference for the stacked linearity and naturality squares.

This is the walk the stacks replaced: one square per probe arrow, each
through the one-arrow `lift` or `fmap`, two `Rel` compositions and an
inclusion, read by `first_violation`.  The probe relations are drawn one
at a time in the order the probe universe draws them (all of them up to
six cells in mask order, else empty, full, three graphs and then the
samples), and the probe functions come from `all_functions`, so neither
reads the universe's stacks.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from finrep.laws import all_functions, all_relations
from finrep.naturality import _check_squares, _func_note, _rel_note
from finrep.rel import FuncTable, Rel, cograph, compose, compose_func, equal_verdict, graph, is_included
from finrep.verdict import Verdict, first_violation

LAWS = ["left-linear-functions", "right-linear-functions", "left-linear-relations",
        "right-linear-relations", "natural-relation"]


def relations_between(probes, a, b):
    if len(a) * len(b) <= 6:
        yield from all_relations(a, b)
        return
    rng = np.random.default_rng((probes.seed, len(a), len(b)))
    yield Rel.empty(a, b)
    yield Rel.full(a, b)
    for _ in range(3):
        yield graph(FuncTable(a, b, rng.integers(0, len(b), size=len(a))))
    for _ in range(probes.rel_samples):
        yield Rel(a, b, rng.random((len(a), len(b))) < rng.uniform(0.2, 0.8))


def relations(probes):
    for a, b in itertools.product(probes.carriers(), repeat=2):
        for x in relations_between(probes, a, b):
            yield a, b, x


def functions(probes):
    for a, b in itertools.product(probes.carriers(), repeat=2):
        for f in all_functions(a, b):
            yield a, b, f


def squares(rho, arrows, side, mode):
    """The two paths (F x ; rho_t, rho_s ; G x) round each probe arrow,
    and the arrow."""
    at = functools.cache(rho.rel_at)
    for a, b, arrow in arrows:
        if mode == "relations":
            fx, gx = rho.source.lift(arrow), rho.target.lift(arrow)
        elif side == "left":
            fx, gx = graph(rho.source.fmap(arrow)), graph(rho.target.fmap(arrow))
        else:
            fx, gx = cograph(rho.source.fmap(arrow)), cograph(rho.target.fmap(arrow))
            a, b = b, a
        yield compose(fx, at(b)), compose(at(a), gx), arrow


def linearity(rho, probes, side, mode) -> Verdict:
    if mode == "functions":
        arrows, count, holds, note = functions(probes), probes.function_count, equal_verdict, _func_note
    else:
        arrows, count, note = relations(probes), probes.relation_count, _rel_note
        holds = is_included if side == "left" else lambda lhs, rhs: is_included(rhs, lhs)
    _check_squares(probes, count, rho.source, rho.target)
    return first_violation(
        f"{side}-linear-{mode}", ((holds(lhs, rhs), x) for lhs, rhs, x in squares(rho, arrows, side, mode)), note
    )


def natural_relation(rho, probes) -> Verdict:
    _check_squares(probes, probes.function_count, rho.source, rho.target)
    return first_violation(
        "natural-relation",
        ((is_included(lhs, rhs), f) for lhs, rhs, f in squares(rho, functions(probes), "right", "functions")),
        _func_note,
    )


def verdicts(rho, probes) -> dict:
    """Each law of LAWS, by its own walk."""
    out = {law: linearity(rho, probes, *law.split("-linear-")) for law in LAWS[:4]}
    out["natural-relation"] = natural_relation(rho, probes)
    return out


def natural_transformation(phi, probes) -> Verdict:
    _check_squares(probes, probes.function_count, phi.source, phi.target)

    def square(f):
        left = compose_func(phi.target.fmap(f), phi.func_at(f.src))
        right = compose_func(phi.func_at(f.tgt), phi.source.fmap(f))
        if left == right:
            return True
        x = next((lab for lab in left.src.elements if left(lab) != right(lab)), None)
        return Verdict("natural-transformation", False, (x,) if x else None)

    return first_violation(
        "natural-transformation", ((square(f), f) for _, _, f in functions(probes)), _func_note
    )
