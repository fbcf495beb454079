"""The representation commands through `cli.main` against the pointwise
reference.

Hypothesis writes small documents: at most 5 traces and 5 expressions,
a satisfaction, and an order declared as a `rel` or a `preorder`.  The
order is the semantic containment of the satisfaction (exact), that
containment with one cell flipped, the identity, a random relation or
its reflexive-transitive closure, and the satisfaction is optionally
closed upwards along the order, so that sound and unsound, exact and
inexact representations and non-preorders all occur.  Five shapes reach
their outcome by construction, so that every outcome occurs in each run:
- the containment is exact;
- the identity is inexact, because e1 has the models of e0;
- the random relation misses (e0, e0), so it is no preorder as a `rel`,
  and a `preorder` declaration of it is refused;
- a closed order with e0 below e1, where t0 models e0 but not e1, is
  unsound.
`check rep`, `check exact` and `build trivial` must give the exit code
and the `(law, ok, witness, note)` list that `tests/oracle.py` reads from
the same text.

Each document also declares two translations f and g of the
expressions, never the identity where another function exists (half of
the time f is a permutation and g its inverse), and two trace relations
p and q, each drawn as a map, a partial map (some rows empty) or a
general relation.  Over them it declares a morphism `m : R -> R` along
f and p and two reductions `r1` (f, g, p) and `r2` (g, f, q); `check
morphism`, `check reduction --name r1` and `reduce compose` must give
what `tests/oracle.py` reads for them too.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from finrep.cli import main

import oracle


def _closure(labels, pairs):
    """Reflexive-transitive closure, pointwise."""
    closed = set(pairs) | {(x, x) for x in labels}
    while True:
        more = {(x, z) for (x, y) in closed for (y2, z) in closed if y2 == y} - closed
        if not more:
            return closed
        closed |= more


def _pairs(draw, rows, cols):
    return {(x, y) for x in rows for y in cols if draw(st.booleans())}


def _translation(draw, exprs):
    """A function on `exprs` other than the identity, if there is one."""
    f = {x: draw(st.sampled_from(exprs)) for x in exprs}
    if len(exprs) > 1 and all(f[x] == x for x in exprs):
        f[exprs[0]] = exprs[1]
    return f


def _trace_relation(draw, traces):
    kind = draw(st.sampled_from(["map", "partial", "general"]))
    if kind == "general" or not traces:
        return _pairs(draw, traces, traces)
    return {(t, draw(st.sampled_from(traces))) for t in traces if kind == "map" or draw(st.booleans())}


def _arrows(draw, traces, exprs):
    """Declarations of f, g, p and q and of the morphism and reductions
    over them."""
    if len(exprs) > 1 and draw(st.booleans()):  # f a permutation, g its inverse
        image = draw(st.permutations(exprs).filter(lambda xs: xs != exprs))
        f = dict(zip(exprs, image))
        g = {y: x for x, y in f.items()}
    else:
        f, g = _translation(draw, exprs), _translation(draw, exprs)
    p, q = _trace_relation(draw, traces), _trace_relation(draw, traces)
    return "".join([
        *(f"fun {name} : E -> E = " + ", ".join(f"{x} -> {y}" for x, y in fun.items()) + "\n"
          for name, fun in (("f", f), ("g", g))),
        *(f"rel {name} : T -> T = " + " ".join(f"({x}, {y})" for x, y in sorted(rel)) + "\n"
          for name, rel in (("p", p), ("q", q))),
        "morphism m : R -> R = phi f psi p\n",
        "reduction r1 : R -> R = phi f tau g psi p\n",
        "reduction r2 : R -> R = phi g tau f psi q\n",
    ])


@st.composite
def documents(draw):
    shape = draw(st.sampled_from(["exact", "flipped", "identity", "random", "refused", "closed", "unsound"]))
    # traces and expressions that the by-construction shapes need
    least_traces, least_exprs = {"identity": (0, 2), "random": (0, 1), "refused": (0, 1),
                                 "unsound": (1, 2)}.get(shape, (0, 0))
    traces = [f"t{i}" for i in range(draw(st.integers(least_traces, 5)))]
    exprs = [f"e{i}" for i in range(draw(st.integers(least_exprs, 5)))]
    models = _pairs(draw, traces, exprs)
    if shape in ("exact", "flipped"):
        leq = oracle.semantic_containment(oracle.Rep(traces, exprs, models, set()))
        if shape == "flipped" and exprs:
            leq ^= {(draw(st.sampled_from(exprs)), draw(st.sampled_from(exprs)))}
    elif shape == "identity":  # inexact: e1 has the models of e0, so e0 contains e1
        leq = {(x, x) for x in exprs}
        models = {(t, e) for t, e in models if e != "e1"} | {(t, "e1") for t, e in models if e == "e0"}
    elif shape == "unsound":  # a preorder with e0 below e1, and t0 models e0 but not e1
        leq = _closure(exprs, _pairs(draw, exprs, exprs) | {("e0", "e1")})
        models = models - {("t0", "e1")} | {("t0", "e0")}
    else:
        leq = _pairs(draw, exprs, exprs)
        if shape == "closed":
            leq = _closure(exprs, leq)
        else:  # random or refused: not reflexive, so no preorder
            leq.discard(("e0", "e0"))
    if shape != "unsound" and draw(st.booleans()):  # sound by construction, if the order is a preorder
        models |= {(t, f) for (t, e) in models for (e2, f) in leq if e2 == e}
    # a relation that is no preorder is declared as one only to be refused
    kind = {"random": "rel", "refused": "preorder"}.get(shape) or draw(st.sampled_from(["rel", "preorder"]))
    header = ": E -> E" if kind == "rel" else ": E"
    return "".join([
        f"set T = {' '.join(traces)}\n",
        f"set E = {' '.join(exprs)}\n",
        "rel sat : T -> E = " + " ".join(f"({t}, {e})" for t, e in sorted(models)) + "\n",
        f"{kind} ord {header} = " + " ".join(f"({x}, {y})" for x, y in sorted(leq)) + "\n",
        "representation R = traces T exprs E models sat leq ord\n",
        _arrows(draw, traces, exprs),
    ])


ARROW_COMMANDS = ("check morphism", "check reduction", "reduce compose")


def _expected(text, command):
    """(exit code, verdicts) of a command, from the pointwise reference."""
    try:
        decls = oracle.read_document(text)
    except ValueError:
        return 2, []
    if command in ARROW_COMMANDS:
        if command == "check morphism":
            a = decls["m"]
            laws = oracle.morphism_laws(a.src, a.tgt, a.phi, a.psi)
        else:
            a = decls["r1"] if command == "check reduction" else oracle.composite(decls["r1"], decls["r2"])
            laws = oracle.reduction_laws(a.src, a.tgt, a.phi, a.tau, a.psi)
        return (0 if all(ok for _, ok, _, _ in laws) else 1), laws
    rep = decls["R"]
    if command == "build trivial":
        rep = rep._replace(leq=oracle.semantic_containment(rep))
    laws = oracle.representation_laws(rep)
    if command != "check rep" and all(ok for _, ok, _, _ in laws):
        laws.append(oracle.exactness(rep))
    return (0 if all(ok for _, ok, _, _ in laws) else 1), laws


def _run(path, command):
    argv = command.split() + [str(path), "--format", "structured"]
    argv += {"build trivial": ["--rel", "sat"], "check reduction": ["--name", "r1"]}.get(command, [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if not out.getvalue():
        return rc, []
    verdicts = json.loads(out.getvalue())["verdicts"]
    return rc, [(v["law"], v["ok"], tuple(v["witness"]) if v["witness"] else None, v["note"])
                for v in verdicts]


@settings(max_examples=150, deadline=None)
@given(documents())
def test_representation_commands_match_the_pointwise_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rep.doc"
        path.write_text(text, encoding="utf-8")
        for command in ("check rep", "check exact", "build trivial"):
            assert _run(path, command) == _expected(text, command), (command, text)


@settings(max_examples=150, deadline=None)
@given(documents())
def test_arrow_commands_match_the_pointwise_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rep.doc"
        path.write_text(text, encoding="utf-8")
        for command in ARROW_COMMANDS:
            assert _run(path, command) == _expected(text, command), (command, text)


def _outcome(text):
    exit_rep, laws = _expected(text, "check rep")
    if exit_rep == 2:
        return "refused"
    if not (laws[0][1] and laws[1][1]):
        return "not a preorder"
    if not laws[2][1]:
        return "unsound"
    return "exact" if _expected(text, "check exact")[0] == 0 else "inexact"


def test_the_drawn_documents_reach_every_outcome():
    # the strategy is only a check if it reaches each kind of document
    seen = set()

    @settings(max_examples=150, deadline=None, database=None)
    @given(documents())
    def collect(text):
        seen.add(_outcome(text))

    collect()
    assert seen == {"refused", "not a preorder", "unsound", "exact", "inexact"}


def _psi_kind(pairs, traces):
    per_row = [sum(t == x for t, _ in pairs) for x in traces]
    return "map" if all(n == 1 for n in per_row) else "partial" if max(per_row) <= 1 else "general"


def test_the_drawn_arrows_reach_every_law_outcome_and_trace_relation():
    # each arrow law both holds and fails, over maps, partial maps and
    # general relations
    seen, kinds = set(), set()

    @settings(max_examples=150, deadline=None, database=None)
    @given(documents())
    def collect(text):
        if _expected(text, "check rep")[0] == 2:
            return
        decls = oracle.read_document(text)
        kinds.update(_psi_kind(decls[name], decls["T"]) for name in ("p", "q") if decls["T"])
        for command in ARROW_COMMANDS:
            seen.update((command, law, ok) for law, ok, _, _ in _expected(text, command)[1])

    collect()
    laws = {"check morphism": ["order-preservation", "models-transport"],
            "check reduction": ["tau-monotone", "models-transport", "roundtrip-up", "roundtrip-down"]}
    laws["reduce compose"] = laws["check reduction"]
    assert seen == {(command, law, ok) for command, names in laws.items() for law in names
                    for ok in (True, False)}
    assert kinds == {"map", "partial", "general"}
