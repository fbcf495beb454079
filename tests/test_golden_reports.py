"""Report bytes pinned command by command.

Each command of `golden_reports.json` runs through `cli.main` in process,
from the repository root, in the text and the structured format; its
stdout and exit code must equal the recorded ones byte for byte, and no
representation, morphism or reduction may have its laws computed twice
in one command.  The set is the README's CLI commands plus the term-side
commands (monoid structures and the term families) plus one command for
each branch of the command layer that those do not reach.  Regenerate the data with
`python3 tests/test_golden_reports.py` only for a change that means to
alter report bytes, and say so where the change is described.
"""

import collections
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "golden_reports.json"

COMMANDS = [
    "check rep corpus/membership2.doc",
    "check exact corpus/membership2.doc",
    "check rep corpus/broken-soundness.doc",
    "check morphism corpus/pair.doc --name ident",
    "check reduction corpus/closure-two-elt.doc",
    "check closure corpus/closure-two-elt.doc --name fold",
    "check naturality corpus/families.doc --family member_of",
    "check linearity corpus/families.doc --family member_of --side both",
    "build trivial corpus/membership2.doc --rel member",
    "build membership corpus/membership2.doc --set S",
    "build product corpus/pair.doc",
    "reduce compose corpus/chain.doc",
    "hor instantiate corpus/ka.doc --set A",
    "hor arrow corpus/lift.doc --fun swap",
    "hor lift-preorder corpus/lift.doc --preorder chain",
    "laws relcore --samples 500 --seed 3",
    # the term side: monoid structures and the term families
    "hor instantiate corpus/lift.doc --set S",
    "hor lift-rep corpus/lift.doc --name membership2",
    "check linearity corpus/families.doc --family flatten",
    "check naturality corpus/families.doc --family flatten",
    "check linearity corpus/families.doc --family letters",
    "check naturality corpus/families.doc --family letters",
    # one command per branch of the command layer not reached above
    "check linearity corpus/families.doc --family member_of --side left --mode functions",
    "check linearity corpus/families.doc --family flatten --side right",
    "check naturality corpus/families.doc --family wrap --seed 5 --samples 3",
    "laws relcore corpus/families.doc",
    "build membership corpus/membership2.doc --set S --powerset-cap 2",
    "build trivial corpus/pair.doc --rel y",
    # the builtins at their defaults, and --powerset-cap filling a cap
    # the declaration leaves out but not one it gives
    "check linearity corpus/defaults.doc --family member",
    "check linearity corpus/defaults.doc --family unit",
    "check linearity corpus/defaults.doc --family member --powerset-cap 1",
    "check linearity corpus/defaults.doc --family joins --powerset-cap 1",
    "check naturality corpus/defaults.doc --family joins",
    "hor instantiate corpus/defaults.doc --hor regs --set A",
    "hor arrow corpus/defaults.doc --hor terms --fun swap",
    # naming the two reductions or factors: both, one, or none when the
    # document does not declare exactly two
    "reduce compose corpus/chain.doc --first step1 --second step2",
    "build product corpus/pair.doc --left first --right second",
    "reduce compose corpus/chain.doc --first step1",
    "reduce compose corpus/closure-two-elt.doc",
    # the Kleene structure ordered by its axioms rather than its languages
    "hor instantiate corpus/ka-axiomatic.doc --set A",
    "hor lift-preorder corpus/ka-axiomatic.doc --preorder chain",
]
FORMATS = [[], ["--format", "structured"]]


def _run(argv):
    from finrep.cli import main

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            rc = main(argv)
    finally:
        os.chdir(cwd)
    return rc, out.getvalue()


def _cases():
    return [(line, fmt) for line in COMMANDS for fmt in FORMATS]


def _key(line, fmt):
    return " ".join([line, *fmt])


def _subject(obj) -> str:
    """A representation's name, or the ends of a morphism or reduction."""
    if hasattr(obj, "name"):
        return f"representation {obj.name!r}"
    return f"{type(obj).__name__.lower()} {obj.source.name!r} -> {obj.target.name!r}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_every_command_is_recorded(golden):
    assert sorted(golden) == sorted(_key(line, fmt) for line, fmt in _cases())


@pytest.mark.parametrize("line, fmt", _cases(), ids=[_key(line, fmt) for line, fmt in _cases()])
def test_report_bytes_and_exit_code(golden, line, fmt):
    rc, out = _run(line.split() + fmt)
    want = golden[_key(line, fmt)]
    assert rc == want["exit"]
    assert out == want["stdout"]


@pytest.mark.parametrize("line", COMMANDS)
def test_laws_are_computed_once_per_command(law_computations, line):
    _run(line.split())
    times = collections.Counter(map(id, law_computations))
    assert [_subject(obj) for obj in law_computations if times[id(obj)] > 1] == []


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    data = {}
    for line, fmt in _cases():
        rc, out = _run(line.split() + fmt)
        data[_key(line, fmt)] = {"exit": rc, "stdout": out}
    DATA.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
