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
    ])


def _expected(text, command):
    """(exit code, verdicts) of a command, from the pointwise reference."""
    try:
        decls = oracle.read_document(text)
    except ValueError:
        return 2, []
    rep = decls["R"]
    if command == "build trivial":
        rep = rep._replace(leq=oracle.semantic_containment(rep))
    laws = oracle.representation_laws(rep)
    if command != "check rep" and all(ok for _, ok, _, _ in laws):
        laws.append(oracle.exactness(rep))
    return (0 if all(ok for _, ok, _, _ in laws) else 1), laws


def _run(path, command):
    argv = command.split() + [str(path), "--format", "structured"]
    if command == "build trivial":
        argv += ["--rel", "sat"]
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
