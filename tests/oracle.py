"""Pointwise reference for the morphism and reduction laws.

Each law is read from its definition element by element, with Python
sets and loops over element labels; nothing here goes through the
relation kernel.  A representation is `Rep(traces, exprs, models, leq)`:
two label lists and two sets of label pairs.  A translation is a dict
from labels to labels, and a trace relation a set of (target trace,
source trace) pairs.

Each law returns `(law, ok, witness, note)` in the shape of the
package's verdicts: an inclusion fails at its first extra pair in
row-major order over the carriers' element order, and an equality names
the side that has the extra pair.
"""

from __future__ import annotations

from typing import NamedTuple


class Rep(NamedTuple):
    traces: list
    exprs: list
    models: set  # (trace, expr): the trace satisfies the expression
    leq: set  # (expr, expr): the first lies below the second


def _first_extra(rows, cols, lhs: set, rhs: set):
    for x in rows:
        for y in cols:
            if (x, y) in lhs and (x, y) not in rhs:
                return x, y
    return None


def inclusion(law, rows, cols, lhs, rhs):
    extra = _first_extra(rows, cols, lhs, rhs)
    return (law, True, None, "") if extra is None else (law, False, extra, "")


def equality(law, rows, cols, lhs, rhs):
    extra = _first_extra(rows, cols, lhs, rhs)
    if extra is not None:
        return law, False, extra, "left side has an extra pair"
    extra = _first_extra(rows, cols, rhs, lhs)
    if extra is not None:
        return law, False, extra, "right side has an extra pair"
    return law, True, None, ""


def order_preservation(f: dict, src: Rep, tgt: Rep, law: str):
    """x' <= x in src gives f(x') <= f(x) in tgt.  Read as pairs (y, x) of a
    target and a source expression: some x' <= x has f(x') = y, against
    y <= f(x)."""
    reached = {(f[x2], x) for (x2, x) in src.leq}
    below = {(y, x) for y in tgt.exprs for x in src.exprs if (y, f[x]) in tgt.leq}
    return inclusion(law, tgt.exprs, src.exprs, reached, below)


def models_transport(phi: dict, psi: set, src: Rep, tgt: Rep):
    """A target trace t satisfies phi(e) exactly when some source trace s
    with (t, s) in psi satisfies e."""
    translated = {(t, e) for t in tgt.traces for e in src.exprs if (t, phi[e]) in tgt.models}
    pulled = {(t, e) for (t, s) in psi for (s2, e) in src.models if s2 == s}
    return equality("models-transport", tgt.traces, src.exprs, translated, pulled)


def morphism_laws(src: Rep, tgt: Rep, phi: dict, psi: set) -> list:
    return [order_preservation(phi, src, tgt, "order-preservation"),
            models_transport(phi, psi, src, tgt)]


def reduction_laws(src: Rep, tgt: Rep, phi: dict, tau: dict, psi: set) -> list:
    """tau is monotone from the target to the source, satisfaction
    transports along phi and psi, and the round trip tau(phi(x)) stays in
    the order-equivalence class of x: below it (up) and above it (down)."""
    back = {x: tau[phi[x]] for x in src.exprs}
    return [
        order_preservation(tau, tgt, src, "tau-monotone"),
        models_transport(phi, psi, src, tgt),
        inclusion("roundtrip-up", src.exprs, src.exprs, {(back[x], x) for x in src.exprs}, src.leq),
        inclusion("roundtrip-down", src.exprs, src.exprs, {(x, back[x]) for x in src.exprs}, src.leq),
    ]
