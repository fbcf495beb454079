"""Reports do not depend on the order in which a document lists a set,
nor on how its labels are spelled.

Each case is a document and a command run through `cli.main`.  The
documents are the corpus files that declare arrows and seeded random
ones over two pairs of carriers, with a morphism, two chainable
reductions and a closure whose trace relations are maps, partial maps or
general relations.  Three of these have 80 to 120 traces per trace
carrier, so that composing with a trace relation is large enough for
`rel.compose` to choose its route from the matrices.  The commands are `check morphism`, `check reduction`,
`reduce compose`, `build product`, `check closure`, `check exact` and
`build trivial`.
- Listing every `set` of the document in another order keeps the exit
  code, each verdict's law and `ok`, the scope line with its counts, and
  each note up to the labels it names.  The `(law, ok, witness, note)`
  list of the reordered document is the one `tests/oracle.py` reads from
  its text, so every witness is a violation there, and every soundness
  link a link.
- Renaming every label one to one gives the same report bytes once the
  new labels are mapped back.  That holds too for a report over syntax
  carriers, whose expression labels are rendered on demand over plain
  labels and all at once over labels that must be fenced.
- Commands whose reports list carriers, sets or witnesses print their
  recorded golden bytes in child processes under `PYTHONHASHSEED` 0, 1
  and random, so no report follows the order of a set or dict of labels.
"""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from finrep.cli import main
from finrep.document import quote_label

import oracle

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

# lines whose body after `=` is made of labels, and the tokens of a body
_LABEL_LINES = ("set", "rel", "preorder", "fun")
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[(),]|[^ \t(),"#]+')

GENERATED = [
    "check morphism --name m",
    "check reduction --name r1",
    "reduce compose --first r1 --second r2",
    "build product --left R --right R2",
    "check closure --name c",
    "check exact --name R",
    "build trivial --rel sat",
]
CORPUS_CASES = [
    ("pair.doc", "check morphism --name ident"),
    ("pair.doc", "build product --left first --right second"),
    ("closure-two-elt.doc", "check reduction --name fold_reduction"),
    ("closure-two-elt.doc", "check closure --name fold"),
    ("chain.doc", "reduce compose --first step1 --second step2"),
    ("broken-soundness.doc", "check exact --name broken"),
    ("broken-soundness.doc", "build trivial --rel sat"),
]


def _pairs(rng, rows, cols, p):
    return {(x, y) for x in rows for y in cols if rng.random() < p}


def _preorder(rng, labels):
    """A random reflexive-transitive relation on `labels`."""
    closed = _pairs(rng, labels, labels, 0.25) | {(x, x) for x in labels}
    while more := {(x, z) for (x, y) in closed for (y2, z) in closed if y2 == y} - closed:
        closed |= more
    return closed


def _trace_relation(rng, rows, cols):
    """A map, a partial map (some rows empty) or a general relation, with
    at most three cells per row on average."""
    kind = rng.choice(["map", "partial", "general"])
    if kind == "general":
        return _pairs(rng, rows, cols, min(0.4, 3 / len(cols)))
    return {(x, rng.choice(cols)) for x in rows if kind == "map" or rng.random() < 0.6}


def _sound(rng, models, leq):
    """`models`, closed upwards along `leq` half of the time."""
    if rng.random() < 0.5:
        return models | {(t, f) for (t, e) in models for (e2, f) in leq if e2 == e}
    return models


def _line(kind, head, body):
    return f"{kind} {head} = {body}\n"


def _rel(pairs):
    return " ".join(f"({x}, {y})" for x, y in sorted(pairs))


def _fun(mapping):
    return ", ".join(f"{x} -> {y}" for x, y in mapping.items())


def generated_document(seed, traces=(1, 5)):
    """A document over traces T and U, whose sizes lie in the range
    `traces`, and expressions E and F of 1 to 5 elements."""
    rng = random.Random(seed)
    sizes = {"T": traces, "E": (1, 5), "U": traces, "F": (1, 5)}
    sets = {name: [f"{name.lower()}{i}" for i in range(rng.randint(*sizes[name]))] for name in "TEUF"}
    t, e, u, f = sets.values()
    ord1, ord2, ord3 = _preorder(rng, e), _preorder(rng, f), _preorder(rng, e)
    text = "".join(_line("set", name, " ".join(labels)) for name, labels in sets.items())
    text += "".join([
        _line("rel", "sat : T -> E", _rel(_sound(rng, _pairs(rng, t, e, 0.4), ord1))),
        _line("rel", "sat2 : U -> F", _rel(_sound(rng, _pairs(rng, u, f, 0.4), ord2))),
        _line("rel", "sat3 : T -> E", _rel(_sound(rng, _pairs(rng, t, e, 0.4), ord3))),
        _line("preorder", "ord : E", _rel(ord1)),
        _line("preorder", "ord2 : F", _rel(ord2)),
        _line("preorder", "ord3 : E", _rel(ord3)),
        "representation R = traces T exprs E models sat leq ord\n",
        "representation R2 = traces U exprs F models sat2 leq ord2\n",
        "representation R3 = traces T exprs E models sat3 leq ord3\n",
        _line("fun", "fw : E -> F", _fun({x: rng.choice(f) for x in e})),
        _line("fun", "bw : F -> E", _fun({y: rng.choice(e) for y in f})),
        _line("fun", "down : E -> E", _fun({x: rng.choice(e) for x in e})),
        _line("rel", "p : U -> T", _rel(_trace_relation(rng, u, t))),
        _line("rel", "q : T -> U", _rel(_trace_relation(rng, t, u))),
        "morphism m : R -> R2 = phi fw psi p\n",
        "reduction r1 : R -> R2 = phi fw tau bw psi p\n",
        "reduction r2 : R2 -> R = phi bw tau fw psi q\n",
        "closure c : R -> R3 = map down\n",
    ])
    return text


def _relabel_body(line, rename):
    """`line` with every label of its body renamed by `rename`."""
    kind = line.split(maxsplit=1)[0] if line.strip() else ""
    if kind not in _LABEL_LINES:
        return line
    head, _, body = line.partition(" = ")
    out = []
    for tok in _TOKEN.findall(body):
        out.append(tok if tok in "()," or tok == "->" else rename(tok))
    return head + " = " + " ".join(out).replace(" ,", ",").replace("( ", "(").replace(" )", ")")


def reorder_sets(text, rng):
    """`text` with the labels of every `set` line shuffled, never left in
    place when a set has two or more."""
    lines = []
    for line in text.splitlines():
        if line.startswith("set "):
            head, _, body = line.partition(" = ")
            labels = body.split()
            shuffled = rng.sample(labels, len(labels))
            line = head + " = " + " ".join(shuffled if shuffled != labels else labels[::-1])
        lines.append(line)
    return "\n".join(lines) + "\n"


def relabel(text):
    """`text` with every label renamed to a quoted word of the form
    `<NNN x>`, and the map from new labels back to old ones."""
    new = {}

    def rename(label):
        return quote_label(new.setdefault(label, f"<{len(new):03d} x>"))

    renamed = "\n".join(_relabel_body(line, rename) for line in text.splitlines()) + "\n"
    return renamed, {v: k for k, v in new.items()}


def run(text, tmp_path, command, fmt):
    path = tmp_path / "doc.doc"
    path.write_text(text, encoding="utf-8")
    words = command.split()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(words[:2] + [str(path)] + words[2:] + ["--format", fmt])
    return rc, out.getvalue()


def verdicts(rc, out):
    """(exit, [(law, ok, witness, note)], scope) of a structured report."""
    tree = json.loads(out)
    return rc, [(v["law"], v["ok"], tuple(v["witness"]) if v["witness"] else None, v["note"])
                for v in tree["verdicts"]], tree["scope"]


def expected(text, command):
    """The `(law, ok, witness, note)` list `tests/oracle.py` reads for the
    command from the document text; None for a product of two valid
    factors, whose laws hold by construction and which it does not
    model."""
    decls = oracle.read_document(text)
    what, names = command.split()[:2], dict(zip(command.split()[2::2], command.split()[3::2]))
    if what == ["check", "morphism"]:
        a = decls[names["--name"]]
        return oracle.morphism_laws(a.src, a.tgt, a.phi, a.psi)
    if what == ["check", "reduction"] or what == ["reduce", "compose"]:
        a = decls[names["--name"]] if "--name" in names else oracle.composite(
            decls[names["--first"]], decls[names["--second"]])
        return oracle.reduction_laws(a.src, a.tgt, a.phi, a.tau, a.psi)
    if what == ["check", "closure"]:
        return oracle.closure_laws(decls[names["--name"]])
    if what == ["build", "product"]:
        failing = [laws for laws in (oracle.representation_laws(decls[names[k]]) for k in ("--left", "--right"))
                   if not all(ok for _, ok, _, _ in laws)]
        return [v for laws in failing for v in laws] if failing else None
    if what == ["build", "trivial"]:
        src, tgt = re.search(rf"^rel {names['--rel']} : (\S+) -> (\S+)", text, re.M).groups()
        rep = oracle.Rep(decls[src], decls[tgt], decls[names["--rel"]], set())
        rep = rep._replace(leq=oracle.semantic_containment(rep))
    else:
        rep = decls[names["--name"]]
    laws = oracle.representation_laws(rep)
    if all(ok for _, ok, _, _ in laws):
        laws.append(oracle.exactness(rep))
    return laws


def _cases():
    for doc, command in CORPUS_CASES:
        yield pytest.param((CORPUS / doc).read_text(encoding="utf-8"), command, id=f"{doc}-{command}")
    for seed in range(12):
        text = generated_document(seed)
        for command in GENERATED:
            yield pytest.param(text, command, id=f"generated{seed}-{command}")
    for seed in range(3):
        text = generated_document(seed, traces=(80, 120))
        for command in GENERATED:
            yield pytest.param(text, command, id=f"wide{seed}-{command}")


def _label_free(note):
    return re.sub(r"\(.*\)", "(...)", note)


@pytest.mark.parametrize("text,command", list(_cases()))
def test_reordering_a_set_keeps_the_verdicts(text, command, tmp_path):
    rc, laws, scope = verdicts(*run(text, tmp_path, command, "structured"))
    assert rc in (0, 1)
    for seed in range(3):
        reordered = reorder_sets(text, random.Random(seed))
        rc2, laws2, scope2 = verdicts(*run(reordered, tmp_path, command, "structured"))
        assert (rc2, scope2) == (rc, scope), (command, reordered)
        assert [(law, ok, _label_free(note)) for law, ok, _, note in laws2] == \
            [(law, ok, _label_free(note)) for law, ok, _, note in laws], (command, reordered)
        want = expected(reordered, command)
        if want is None:
            assert all(ok and w is None for _, ok, w, _ in laws2), (command, reordered)
        else:
            assert laws2 == want, (command, reordered)


@pytest.mark.parametrize("text,command", list(_cases()))
def test_relabelling_keeps_the_report_bytes(text, command, tmp_path):
    rc, out = run(text, tmp_path, command, "text")
    assert rc in (0, 1)
    renamed, back = relabel(text)
    rc2, out2 = run(renamed, tmp_path, command, "text")
    assert rc2 == rc
    assert re.sub(r"<\d{3} x>", lambda m: back[m.group()], out2) == out


# documents whose reports come from syntax carriers: over plain labels a
# syntax carrier renders its labels on demand, over labels that must be
# fenced it renders them all at once and checks them for duplicates
SYNTAX_CASES = [
    pytest.param("set A = a b\nhor K = builtin ka size 3 words 2 mode axiomatic\n", "hor instantiate --set A",
                 "witness: (0, (<a(>.<a(>))", id="ka-axiomatic-instantiate"),
    pytest.param("set S = a b\npreorder chain : S = (a, a) (a, b) (b, b)\nhor M = builtin mon depth 2\n",
                 "hor lift-preorder --preorder chain", "verdict absorbs-lifted-order: ok", id="mon-lift-preorder"),
]


@pytest.mark.parametrize("text,command,line", SYNTAX_CASES)
def test_renaming_to_fenced_labels_keeps_the_report_bytes(text, command, line, tmp_path):
    fenced = "\n".join(_relabel_body(row, lambda label: quote_label(label + "(")) for row in text.splitlines())
    rc, out = run(text, tmp_path, command, "text")
    rc2, out2 = run(fenced + "\n", tmp_path, command, "text")
    assert rc == rc2 == 0 and line in out2.splitlines()
    assert re.sub(r"<(\w+)\(>", r"\1", out2) == out


def test_the_cases_reach_violations_and_passes():
    # the guard only checks witnesses if some command reports one
    seen = {(law, ok) for text, command in (c.values for c in _cases())
            for law, ok, _, _ in (expected(text, command) or [])}
    laws = {law for law, _ in seen}
    assert {law for law in laws if (law, True) in seen and (law, False) in seen} >= {
        "order-preservation", "models-transport", "tau-monotone", "roundtrip-up", "soundness",
        "closure-covers-satisfaction", "closure-within-order", "exactness"}


HASH_SEED_COMMANDS = [
    "build product corpus/pair.doc",
    "hor instantiate corpus/ka.doc --set A",
    "check naturality corpus/families.doc --family wrap --seed 5 --samples 3",
    "check linearity corpus/families.doc --family member_of --side both",
]
# runs each command line of argv[1] through cli.main, prints [exit, stdout] per line
_HASH_SEED_CHILD = """
import contextlib, io, json, sys
from finrep.cli import main
outs = []
for line in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(line.split())
    outs.append([rc, out.getvalue()])
print(json.dumps(outs))
"""


@pytest.mark.parametrize("seed", ["0", "1", "random"])
def test_report_bytes_do_not_follow_the_hash_seed(seed):
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run([sys.executable, "-c", _HASH_SEED_CHILD, json.dumps(HASH_SEED_COMMANDS)],
                           cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    golden = json.loads((ROOT / "tests" / "golden_reports.json").read_text(encoding="utf-8"))
    assert json.loads(child.stdout) == [[golden[line]["exit"], golden[line]["stdout"]] for line in HASH_SEED_COMMANDS]
