"""What the package runs: a reach map of `src/finrep`, pinned.

A child process starts `sys.setprofile`, then imports the package and
makes the calls that the report pins and the benchmark make:
- every command of `test_golden_reports.py`, in both formats;
- the cli workload's trace slice (`perfbench/workloads.py`, seed 11)
  through `cli.main` in process, on the workload's generated documents;
- the `probe-checks` and `kleene` trace slices, as
  `test_bench_workloads.py` runs them.
A function of `src/finrep` that none of these calls is unreached.
Functions that run at import time, such as `document._slot`, count as
reached.  `reach.json` lists every unreached function with its reader,
the acceptance gate or test that reads it: `tests/<file>.py` when that
file names the function, or `tests/<file>.py::<test>` for a dunder or a
closure, which a test reads without naming it, and for a helper that a
test reads only through another function.  The map fails on an
unreached function it does not list, on a listed function that something
now reaches or that is gone, and on a reader that no longer names the
function or the test.

Regenerate the map with `python3 tests/test_reach.py`.  Listed readers
are kept; a new unreached function gets the first test file that names
it, `tests/test_acceptance.py` first, or "?" to be filled in by hand.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tokenize
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "finrep"
DATA = Path(__file__).resolve().parent / "reach.json"
ACCEPTANCE = "tests/test_acceptance.py"


def defined() -> set[str]:
    """`module.qualname` of every function defined in `src/finrep`;
    lambdas and comprehensions belong to the function around them."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while codes:
            for const in codes.pop().co_consts:
                if isinstance(const, types.CodeType):
                    codes.append(const)
                    if not const.co_name.startswith("<"):
                        names.add(f"{path.stem}.{const.co_qualname}")
    return names


def _make_the_calls(work: Path):
    import numpy as np

    import test_golden_reports
    import workloads

    for line, fmt in test_golden_reports._cases():
        test_golden_reports._run(line.split() + fmt)

    class InProcess:
        """The cli workload's runner, through `cli.main` in this process."""

        def __init__(self, work: Path, traced: bool = False):
            self.work = work

        def run(self, argv: list[str]) -> int:
            from finrep.cli import main

            here = os.getcwd()
            os.chdir(self.work.parent)
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    return main(argv)
            finally:
                os.chdir(here)

    # the workload writes its documents under its root and names them from
    # there, and the corpus commands read `corpus/` from the same place
    (work / "corpus").symlink_to(ROOT / "corpus")
    (work / "docs").mkdir()
    workloads.ROOT, workloads.CliRunner = work, InProcess
    cli = workloads.WORKLOADS["cli"]()
    cli.setup(11, work / "docs")
    for op in cli.trace_slice(np.random.default_rng(11), traced=False):
        assert op.call() == op.exit, op.key
    for name in ("probe-checks", "kleene"):
        workload = workloads.WORKLOADS[name]()
        workload.setup(11, work)
        for op in workload.trace_slice(np.random.default_rng(11), traced=False):
            op.call()


def reached_here() -> set[str]:
    """`module.qualname` of every `src/finrep` function the calls reach in
    this process, which must not have imported the package yet."""
    assert "finrep" not in sys.modules
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    with tempfile.TemporaryDirectory() as work:
        sys.setprofile(profile)
        try:
            _make_the_calls(Path(work))
        finally:
            sys.setprofile(None)
    return {f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in codes if Path(c.co_filename).parent == SRC}


def unreached() -> set[str]:
    child = subprocess.run([sys.executable, __file__, "--reached"], capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return defined() - set(json.loads(child.stdout))


def _names(text: str, word: str) -> bool:
    """Whether the Python source `text` holds `word` as a name in its code,
    not only in a comment or a string."""
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return any(tok.type == tokenize.NAME and tok.string == word for tok in tokens)


def _word(name: str, reader: str) -> tuple[str, str | None]:
    """The reader's file and the word it must name: the test, or else the
    function's own name; None for a dunder or a closure, which a test
    reads without naming it."""
    path, _, test = reader.partition("::")
    if test:
        return path, test
    last = name.rpartition(".")[2]
    return path, None if "<locals>" in name or last.startswith("__") else last


def problems(unreached: set[str], listed: dict[str, str], read) -> list[str]:
    """What keeps `listed` from being the map of `unreached`; `read(path)`
    is the text of a reader file, or None when there is no such file."""
    out = [f"{name}: nothing reaches it, and reach.json does not list it"
           for name in sorted(unreached - listed.keys())]
    out += [f"{name}: listed in reach.json, but reached or gone" for name in sorted(listed.keys() - unreached)]
    for name in sorted(listed.keys() & unreached):
        path, word = _word(name, listed[name])
        text = read(path)
        if word is None:
            out.append(f"{name}: read without its name, so its reader must be a test (path::test)")
        elif text is None or not _names(text, word):
            out.append(f"{name}: its reader {listed[name]} does not name {word}")
    return out


def _read(path: str) -> str | None:
    file = ROOT / path
    return file.read_text(encoding="utf-8") if file.is_file() else None


def test_the_check_sees_each_fault():
    files = {"tests/a.py": "from m import kept\n\n\ndef test_reads():\n    pass\n"}
    listed = {"m.kept": "tests/a.py", "m.C.__repr__": "tests/a.py::test_reads", "m.f.<locals>.g": "tests/a.py",
              "m.stale": "tests/a.py", "m.gone": "tests/b.py", "m.run": "tests/a.py"}
    unreached = {"m.kept", "m.C.__repr__", "m.f.<locals>.g", "m.stale", "m.gone", "m.new"}
    assert problems(unreached, listed, files.get) == [
        "m.new: nothing reaches it, and reach.json does not list it",
        "m.run: listed in reach.json, but reached or gone",
        "m.f.<locals>.g: read without its name, so its reader must be a test (path::test)",
        "m.gone: its reader tests/b.py does not name gone",
        "m.stale: its reader tests/a.py does not name stale",
    ]
    del listed["m.run"], listed["m.f.<locals>.g"], listed["m.stale"], listed["m.gone"]
    assert problems(unreached - {"m.new", "m.f.<locals>.g", "m.stale", "m.gone"}, listed, files.get) == []


def test_every_function_nothing_reaches_is_listed_with_its_reader():
    listed = json.loads(DATA.read_text(encoding="utf-8"))
    assert problems(unreached(), listed, _read) == []


def _first_reader(name: str) -> str:
    """The acceptance gate if it names the function, else the module's own
    test file, else the first other test file that names it, else "?"."""
    own = f"tests/test_{name.partition('.')[0]}.py"
    others = sorted(f"tests/{p.name}" for p in (ROOT / "tests").glob("test_*.py"))
    _, word = _word(name, "")
    return next((path for path in dict.fromkeys([ACCEPTANCE, own, *others])
                 if word and path != "tests/test_reach.py" and _names(_read(path) or "", word)), "?")


if __name__ == "__main__":
    if sys.argv[1:] == ["--reached"]:
        print(json.dumps(sorted(reached_here())))
    else:
        old = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else {}
        data = {name: old.get(name) or _first_reader(name) for name in sorted(unreached())}
        DATA.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
