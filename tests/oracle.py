"""Pointwise reference for the representation, morphism and reduction laws.

Each law is read from its definition element by element, with Python
sets and loops over element labels; nothing here goes through the
relation kernel.  A representation is `Rep(traces, exprs, models, leq)`:
two label lists and two sets of label pairs.  A translation is a dict
from labels to labels, and a trace relation a set of (target trace,
source trace) pairs.  `read_document` reads the declarations of a
document whose labels are bare words from its text.

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


class Arrow(NamedTuple):
    """A morphism (tau None), reduction or closure (psi and tau None, phi
    the closure map) between two declared representations."""
    src: Rep
    tgt: Rep
    phi: dict
    tau: dict | None
    psi: set | None


def read_document(text: str) -> dict:
    """The declarations of a document made of `set`, `rel`, `preorder`,
    `fun`, `representation`, `morphism`, `reduction` and `closure` lines
    with bare labels, and of whole-line comments: a set is its label
    list, a relation or preorder its set of pairs, a function a dict, a
    representation a `Rep` and the three arrows an `Arrow`.  A preorder that is not
    reflexive and transitive is refused with ValueError, as the format
    refuses it."""
    decls = {}
    for line in text.splitlines():
        words = line.replace("(", " ").replace(")", " ").replace(",", " ").split()
        if not words or words[0].startswith("#"):
            continue
        kind, name = words[0], words[1]
        body = words[words.index("=") + 1:]
        if kind == "set":
            decls[name] = body
        elif kind in ("rel", "preorder"):
            pairs = set(zip(body[::2], body[1::2]))
            if kind == "preorder":
                labels = decls[words[3]]
                if not (reflexivity(labels, pairs)[1] and transitivity(labels, pairs)[1]):
                    raise ValueError(f"preorder {name!r} is not a preorder")
            decls[name] = pairs
        elif kind == "fun":  # fun f : A -> B = x -> y, ...
            decls[name] = dict(zip(body[::3], body[2::3]))
        elif kind == "representation":  # representation R = traces T exprs E models sat leq ord
            traces, exprs, models, leq = (decls[w] for w in body[1::2])
            decls[name] = Rep(traces, exprs, models, leq)
        else:  # morphism m : R -> R2 = phi f psi p, reduction ... tau g ..., closure c ... = map f
            parts = dict(zip(body[::2], (decls[w] for w in body[1::2])))
            decls[name] = Arrow(decls[words[3]], decls[words[5]], parts.get("phi", parts.get("map")),
                                parts.get("tau"), parts.get("psi"))
    return decls


def composite(first: Arrow, second: Arrow) -> Arrow:
    """`first`, then `second`: the translations chain forwards (phi) and
    backwards (tau), and a target trace of `second` relates to a source
    trace of `first` through some trace in between."""
    return Arrow(first.src, second.tgt,
                 {x: second.phi[first.phi[x]] for x in first.src.exprs},
                 {y: first.tau[second.tau[y]] for y in second.tgt.exprs},
                 {(t, s) for (t, u) in second.psi for (u2, s) in first.psi if u2 == u})


def closure_laws(c: Arrow) -> list:
    """The closure map `c.phi` sends an expression e to one whose
    satisfaction in the finer `c.tgt` covers e's in `c.src`, and that lies
    below e in the order of `c.src`."""
    down, coarse, fine = c.phi, c.src, c.tgt
    covered = {(t, e) for t in coarse.traces for e in coarse.exprs if (t, down[e]) in fine.models}
    return [inclusion("closure-covers-satisfaction", coarse.traces, coarse.exprs, coarse.models, covered),
            inclusion("closure-within-order", coarse.exprs, coarse.exprs,
                      {(down[e], e) for e in coarse.exprs}, coarse.leq)]


def reflexivity(exprs, leq):
    return inclusion("reflexivity", exprs, exprs, {(x, x) for x in exprs}, leq)


def transitivity(exprs, leq):
    through = {(x, z) for (x, y) in leq for (y2, z) in leq if y2 == y}
    return inclusion("transitivity", exprs, exprs, through, leq)


def soundness(rep: Rep):
    """Enlarging an expression along the order keeps its traces: (t, e)
    satisfied and e <= f give (t, f) satisfied.  A failure names its link
    (e, f), with e the first expression that carries t up to f."""
    reached = {(t, f) for (t, e) in rep.models for (e2, f) in rep.leq if e2 == e}
    law, ok, witness, _ = inclusion("soundness", rep.traces, rep.exprs, reached, rep.models)
    if ok:
        return law, ok, witness, ""
    t, f = witness
    link = next(e for e in rep.exprs if (t, e) in rep.models and (e, f) in rep.leq)
    return law, False, witness, f"via link ({link}, {f})"


def representation_laws(rep: Rep) -> list:
    """The order is a preorder, and the representation is sound."""
    return [reflexivity(rep.exprs, rep.leq), transitivity(rep.exprs, rep.leq), soundness(rep)]


def semantic_containment(rep: Rep) -> set:
    """(e, f) when every trace that satisfies e satisfies f."""
    sat = {e: {t for t in rep.traces if (t, e) in rep.models} for e in rep.exprs}
    return {(e, f) for e in rep.exprs for f in rep.exprs if sat[e] <= sat[f]}


def exactness(rep: Rep):
    """The order holds every semantic containment; a failure names the
    first one it misses, in row-major order."""
    return inclusion("exactness", rep.exprs, rep.exprs, semantic_containment(rep), rep.leq)
