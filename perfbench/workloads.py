"""The three workloads: seeded operation lists, each with its oracle.

A workload is one closed-loop client.  It issues one operation at a
time and waits for the verdict before the next.  Its operations come in
rounds: a round is a fixed multiset of operation kinds whose contents
(documents, alphabets, probe seeds) are drawn from the seed, shuffled
by the seed.  Every round of one workload has the same kinds in the
same counts, so percentiles over whole rounds do not shift with the
number of rounds a run completes.

Every operation carries its oracle: the exit code and the list of
(law, ok) verdicts it must produce, and for some laws a witness or a
note fragment.  The sources are README's documented exits, the
acceptance gate's pins and, for scaled documents, `gen.expected`.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

# address-space limit set inside every cli child, so that an allocation
# the budget should have refused fails at once on any machine
CHILD_AS_BYTES = 2 << 30


@dataclass
class Outcome:
    exit: int | None
    verdicts: list[tuple[str, bool, tuple | None, str]]
    text: str
    seconds: float
    error: str = ""
    rss_kb: int = 0
    stats: dict | None = None


@dataclass
class Op:
    key: str                      # repetitions of one operation share it
    kind: str                     # the operation kind, one per round slot
    call: Callable[[], Outcome]
    exit: int
    verdicts: list[tuple[str, bool]] | None = None
    witnesses: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    refusal: bool = False


def check(op: Op, out: Outcome) -> tuple[str, str] | None:
    """None when `out` meets the oracle, else (kind, reason).

    kind "failed": the program crashed or did not refuse what it must
    refuse, or refused what it must answer.  kind "wrong": it answered
    with verdicts, witnesses or notes other than the oracle's.
    """
    if out.error:
        return "failed", out.error
    if op.refusal:
        if out.exit != 2:
            return "failed", f"exit {out.exit}, expected refusal with exit 2"
        if out.text:
            return "failed", "refusal printed a report"
        return None
    if out.exit == 2 or out.exit is None:
        return "failed", f"exit {out.exit}, expected {op.exit}"
    got = [(law, ok) for law, ok, _, _ in out.verdicts]
    if got != op.verdicts:
        return "wrong", f"verdicts {got}, expected {op.verdicts}"
    if out.exit != op.exit:
        return "wrong", f"exit {out.exit}, expected {op.exit}"
    by_law = {law: (w, note) for law, _, w, note in out.verdicts}
    for law, w in op.witnesses.items():
        if by_law[law][0] != w:
            return "wrong", f"{law} witness {by_law[law][0]}, expected {w}"
    for law, frag in op.notes.items():
        if frag not in by_law[law][1]:
            return "wrong", f"{law} note {by_law[law][1]!r} lacks {frag!r}"
    return None


# ================================================================== cli

README_CLI = [
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
]

_REP = [("reflexivity", True), ("transitivity", True), ("soundness", True)]
_RED = [("tau-monotone", True), ("models-transport", True),
        ("roundtrip-up", True), ("roundtrip-down", True)]
_MOR = [("order-preservation", True), ("models-transport", True)]
_LINEAR_ALL = ["left-linear-functions", "right-linear-functions",
               "left-linear-relations", "right-linear-relations",
               "natural-relation", "modes-agree"]

# README documents broken-soundness -> exit 1 with witness (t, e1), and
# membership as linear on the right only; everything else passes
CORPUS_ORACLE = {
    "check rep corpus/membership2.doc": (0, _REP, {}, {}),
    "check exact corpus/membership2.doc": (0, _REP + [("exactness", True)], {}, {}),
    "check rep corpus/broken-soundness.doc": (
        1, _REP[:2] + [("soundness", False)], {"soundness": ("t", "e1")}, {}),
    "check morphism corpus/pair.doc --name ident": (0, _MOR, {}, {}),
    "check reduction corpus/closure-two-elt.doc": (0, _RED, {}, {}),
    "check closure corpus/closure-two-elt.doc --name fold": (
        0, [("closure-covers-satisfaction", True), ("closure-within-order", True)], {}, {}),
    "check naturality corpus/families.doc --family member_of": (
        0, [("natural-relation", True)], {}, {}),
    "check linearity corpus/families.doc --family member_of --side both": (
        1, [(law, "left" not in law) for law in _LINEAR_ALL], {}, {}),
    "build trivial corpus/membership2.doc --rel member": (
        0, _REP + [("exactness", True)], {}, {}),
    "build membership corpus/membership2.doc --set S": (
        0, _REP + [("exactness", True)], {}, {}),
    "build product corpus/pair.doc": (
        0, _REP + [(f"{side}-projection-{law}", True)
                   for side in ("left", "right") for law, _ in _MOR], {}, {}),
    "reduce compose corpus/chain.doc": (0, _RED, {}, {}),
    "hor instantiate corpus/ka.doc --set A": (
        0, _REP + [("exactness-finding", True)], {}, {}),
    "hor arrow corpus/lift.doc --fun swap": (0, _MOR, {}, {}),
    "hor lift-preorder corpus/lift.doc --preorder chain": (
        0, _REP + [("absorbs-lifted-order", True), ("absorbs-base-order", True)], {}, {}),
    # the acceptance gate pins the exhaustive instance counts
    "laws relcore --samples 500 --seed 3": (
        0, [("residual-adjunction-exhaustive", True), ("function-residual-exhaustive", True),
            ("residual-adjunction-sampled", True), ("function-residual-sampled", True)],
        {}, {"residual-adjunction-exhaustive": "5053 instances",
             "function-residual-exhaustive": "16971 instances",
             "residual-adjunction-sampled": "500 samples at size 4"}),
}

# scaled documents in every round: (name, shape, commands, repetitions);
# ten operations are slower than the wide document's, so p90 falls inside
# its block of twelve
SCALED = [
    ("small", gen.Spec(300, 300, 5, 0.03, True), list(gen.COMMANDS), 1),
    ("wide", gen.Spec(1500, 400, 5, 0.01, False), list(gen.COMMANDS), 2),
    ("large", gen.Spec(1000, 1000, 5, 0.03, True), ["check exact"], 1),
]
# every README command runs five times a round, except the law suite,
# which is five times slower than the rest and runs twice
CORPUS_REPEATS = {line: 2 if line.startswith("laws ") else 5 for line in README_CLI}


def parse_text_report(text: str):
    """(law, ok, witness, note) per verdict line of a text report."""
    out = []
    for line in text.splitlines():
        if line.startswith("verdict "):
            head, _, rest = line[len("verdict "):].partition(": ")
            ok = rest.startswith("ok")
            note = ""
            if "  [" in rest and rest.endswith("]"):
                note = rest[rest.index("  [") + 3:-1]
            out.append([head, ok, None, note])
        elif line.startswith("witness: (") and out:
            out[-1][2] = tuple(line[len("witness: ("):-1].split(", "))
    return [tuple(v) for v in out]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))


class CliRunner:
    """Spawns one `finrep.cli` child per operation and waits for it."""

    def __init__(self, work: Path, traced: bool = False):
        self.work = work
        self.traced = traced
        # the thread settings of run.py reach the children through os.environ
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("PYTHONSTARTUP", None)

    def run(self, argv: list[str]) -> Outcome:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        stats_path = self.work / "spans.json"
        if self.traced:
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(stats_path), *argv]
        else:
            cmd = [sys.executable, "-m", "finrep.cli", *argv]
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=fo, stderr=fe,
                                    stdin=subprocess.DEVNULL,
                                    preexec_fn=_limit_address_space)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = out_path.read_text(encoding="utf-8", errors="replace")
        err = err_path.read_text(encoding="utf-8", errors="replace")
        error = ""
        if "Traceback (most recent call last)" in err:
            error = "traceback: " + err.strip().splitlines()[-1][:200]
        elif proc.returncode < 0:
            error = f"killed by signal {-proc.returncode}"
        elif proc.returncode == 2 and not err.startswith("error:"):
            error = "exit 2 without an error message"
        stats = None
        if self.traced and stats_path.exists():
            stats = json.loads(stats_path.read_text())
            stats_path.unlink()
        verdicts = parse_text_report(text)
        if text and not error:
            tail = text.rstrip("\n").splitlines()[-1]
            if tail != f"exit: {proc.returncode}":
                error = f"report says {tail!r} but the process exited {proc.returncode}"
        return Outcome(proc.returncode, verdicts, text, seconds, error,
                       usage.ru_maxrss, stats)


def _letters(rng: np.random.Generator, k: int) -> list[str]:
    return [str(c) for c in rng.choice(list("abcdefghijklmnopqrstuvwxyz"), k, replace=False)]


class CliWorkload:
    name = "cli"
    in_process = False

    def setup(self, seed: int, work: Path):
        """Write the seeded documents and compute their oracles."""
        rng = np.random.default_rng([seed, 1])
        self.docs = {}
        for name, spec, commands, reps in SCALED:
            doc = gen.build(rng, spec)
            path = work / f"{name}.doc"
            path.write_text(doc.text, encoding="utf-8")
            self.docs[name] = (path.relative_to(ROOT).as_posix(), gen.expected(doc), commands, reps)
        mon = _letters(rng, 3)
        ka = _letters(rng, 2)
        (work / "mon4.doc").write_text(
            f"set A = {' '.join(mon)}\nhor deep = builtin mon depth 4\n", encoding="utf-8")
        (work / "ka8.doc").write_text(
            f"set A = {' '.join(ka)}\nhor wide = builtin ka size 8 words 3\n", encoding="utf-8")
        self.prefix = work.relative_to(ROOT).as_posix() + "/"
        rel = lambda p: self.prefix + p  # noqa: E731
        self.refusals = [
            f"hor instantiate {rel('mon4.doc')} --budget 100000",
            f"hor instantiate {rel('ka8.doc')} --budget 50000",
            "check linearity corpus/families.doc --family member_of --probe-max -1",
            "laws relcore --samples -5",
            f"hor instantiate {rel('ka8.doc')}",
        ]
        self.runner = CliRunner(work)
        # warm-up: one child, so bytecode and the file cache are in place
        self.runner.run(README_CLI[0].split())

    def _ops(self, runner: CliRunner, rng, full: bool) -> list[Op]:
        ops = []
        for line in README_CLI:
            exit_code, verdicts, witnesses, notes = CORPUS_ORACLE[line]
            argv = line.split()
            for _ in range(CORPUS_REPEATS[line] if full else 1):
                ops.append(Op(line, "corpus", lambda a=argv: runner.run(a), exit_code,
                              verdicts, witnesses, notes))
        for line in self.refusals:
            argv = line.split()
            key = line.replace(self.prefix, "")
            ops.append(Op(key, "refusal", lambda a=argv: runner.run(a), 2, refusal=True))
        for name, (path, expect, commands, reps) in self.docs.items():
            for cmd in commands:
                head = gen.COMMANDS[cmd]
                argv = head[:2] + [path] + head[2:]
                exit_code, verdicts = expect[cmd]
                witnesses = {law: w for law, _, w in verdicts if w is not None}
                for _ in range(reps if full else 1):
                    ops.append(Op(f"{cmd} {name}.doc", f"scaled-{name}",
                                  lambda a=argv: runner.run(a), exit_code,
                                  [(law, ok) for law, ok, _ in verdicts], witnesses))
        rng.shuffle(ops)
        return ops

    def round(self, rng) -> list[Op]:
        return self._ops(self.runner, rng, full=True)

    def trace_slice(self, rng, traced: bool) -> list[Op]:
        runner = CliRunner(self.runner.work, traced=traced)
        return self._ops(runner, rng, full=False)

    def peak_rss_mb(self, outcomes: list[Outcome]) -> float:
        return max(o.rss_kb for o in outcomes) / 1024


# ============================================================ in-process

def _verdicts(report) -> list[tuple[str, bool, tuple | None, str]]:
    items = report.verdicts if hasattr(report, "verdicts") else report
    return [(v.law, v.ok, v.witness, v.note) for v in items]


def _inprocess(fn) -> Outcome:
    t0 = time.perf_counter()
    try:
        verdicts = fn()
    except Exception as e:  # an uncaught exception fails the operation
        tb = traceback.format_exception_only(type(e), e)[-1].strip()
        return Outcome(None, [], "", time.perf_counter() - t0, f"exception: {tb[:200]}")
    seconds = time.perf_counter() - t0
    text = "\n".join(
        f"{law}: {'ok' if ok else 'VIOLATION'} {w} {note}" for law, ok, w, note in verdicts)
    exit_code = 0 if all(ok for _, ok, _, _ in verdicts) else 1
    return Outcome(exit_code, verdicts, text, seconds)


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


_FUNCTOR_LAWS = ["preserves-identity", "preserves-composition", "lifting-extends-arrows",
                 "lifting-identity", "lifting-monotone", "lifting-functorial"]
_TILDE = ["reflexivity", "transitivity", "soundness",
          "absorbs-lifted-order", "absorbs-base-order"]


def probe_function_count(max_size: int) -> int:
    """Functions between probe carriers of sizes 0..max_size."""
    return sum(b ** a for a in range(max_size + 1) for b in range(max_size + 1)
               if b > 0 or a == 0)


class ProbeChecksWorkload:
    """Library checks over probe universes in one long-lived process."""

    name = "probe-checks"
    in_process = True

    # kind -> repetitions per round; the eight heaviest operations (term
    # lifts and law suites) stay below 10% of a round, so p90 falls inside
    # the block of the slowest light checks, not on the edge of a heavy one
    ROUND = {
        "linearity-membership": 12, "linearity-samevars": 12, "linearity-term-unit": 12,
        "linearity-term-flatten": 2,
        "laws-term": 9, "laws-list": 9, "laws-powerset": 9, "laws-composed": 2,
        "relation-law-suite": 4,
        "arrows-mon": 9, "arrows-ka": 9,
        "tilde-mon": 9, "tilde-ka": 9, "tilde-rule": 9,
    }

    def setup(self, seed: int, work: Path):
        from finrep import functors, hor, kleene, laws, naturality
        from finrep.fset import FiniteSet
        from finrep.rel import Rel

        self.f, self.h, self.k, self.laws, self.n = functors, hor, kleene, laws, naturality
        self.sig = functors.Signature.of({"mul": 2, "one": 0})
        pq = FiniteSet("pq", ["p", "q"])
        # the four preorders on two points
        self.preorders = [hor.PreorderedSet(pq, Rel(pq, pq, m)) for m in
                          ([[1, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 0], [1, 1]], [[1, 1], [1, 1]])]
        # two probe seeds per run, so every kind repeats an operation and
        # its report bytes can be compared
        rng = np.random.default_rng([seed, 2])
        self.probe_seeds = [int(x) for x in rng.integers(0, 2 ** 31, size=2)]
        # warm-up: one cheap operation of each of these kinds
        for kind in ("linearity-membership", "laws-term", "arrows-mon", "tilde-ka"):
            self._op(kind, rng).call()

    def _op(self, kind: str, rng) -> Op:
        n, f, h = self.n, self.f, self.h
        seed = int(rng.choice(self.probe_seeds))
        sig = self.sig
        if kind.startswith("linearity-"):
            fam = kind[len("linearity-"):]
            size = 3 if fam == "membership" else 2
            build = {
                "membership": lambda: n.membership_family(4),
                "samevars": lambda: n.samevars_family(sig, 2),
                "term-unit": lambda: n.term_unit(sig, 2).graph_family(),
                "term-flatten": lambda: n.term_flatten(sig, 2).graph_family(),
            }[fam]
            # acceptance pins: membership is right-linear only, the term
            # families are linear on both sides
            expect = [(law, fam != "membership" or "left" not in law) for law in _LINEAR_ALL]
            call = lambda: _inprocess(lambda: _verdicts(  # noqa: E731
                n.classify_linearity(build(), n.ProbeUniverse(size, 25, seed))))
            return Op(f"{kind} seed {seed}", kind, call, 0 if fam != "membership" else 1, expect)
        if kind.startswith("laws-"):
            fun = {
                "term": lambda: f.TermFunctor(sig, 2),
                "list": lambda: f.ListFunctor(2),
                "powerset": lambda: f.PowersetFunctor(4),
                "composed": lambda: f.ComposedFunctor(f.ListFunctor(2), f.TermFunctor(sig, 2)),
            }[kind[len("laws-"):]]
            call = lambda: _inprocess(lambda: _verdicts(  # noqa: E731
                n.check_functor_laws(fun(), n.ProbeUniverse(2, 25, seed))))
            return Op(f"{kind} seed {seed}", kind, call, 0, [(law, True) for law in _FUNCTOR_LAWS])
        if kind == "relation-law-suite":
            samples = int(rng.integers(50, 201))
            cfg = self.laws.LawConfig(exhaustive_max=2, sample_size=4, samples=samples, seed=seed)
            call = lambda: _inprocess(lambda: _verdicts(self.laws.relation_law_suite(cfg)))  # noqa: E731
            laws = ["residual-adjunction-exhaustive", "function-residual-exhaustive",
                    "residual-adjunction-sampled", "function-residual-sampled"]
            notes = {laws[0]: "5053 instances", laws[1]: "16971 instances",
                     laws[2]: f"{samples} samples at size 4", laws[3]: f"{samples} samples at size 4"}
            return Op(f"{kind} seed {seed} samples {samples}", kind, call, 0,
                      [(law, True) for law in laws], notes=notes)
        if kind.startswith("arrows-"):
            make = (lambda: h.mon_hor(2)) if kind == "arrows-mon" else (lambda: self.k.ka_hor(3, 2))

            def arrows():
                structure = make()
                probes = n.ProbeUniverse(2, 5, seed)
                return [("hor-arrow", h.hor_arrow(structure, fn).validated, None,
                         f"{a.name}->{b.name}") for a, b, fn in probes.functions()]

            count = probe_function_count(2)
            return Op(kind, kind, lambda: _inprocess(arrows), 0, [("hor-arrow", True)] * count)
        p = self.preorders[int(rng.integers(0, len(self.preorders)))]
        label = "".join("1" if x else "0" for x in p.order.m.ravel())
        if kind == "tilde-rule":
            call = lambda: _inprocess(lambda: _verdicts(h.tilde_mon_rule_check(p, 2)))  # noqa: E731
            return Op(f"{kind} {label}", kind, call, 0, [("rule-closure-matches-lifted-order", True)])
        make = (lambda: h.mon_hor(2)) if kind == "tilde-mon" else (lambda: self.k.ka_hor(3, 2))
        call = lambda: _inprocess(lambda: _verdicts(h.check_tilde_soundness(make(), p)))  # noqa: E731
        return Op(f"{kind} {label}", kind, call, 0, [(law, True) for law in _TILDE])

    def round(self, rng) -> list[Op]:
        ops = [self._op(kind, rng) for kind, reps in self.ROUND.items() for _ in range(reps)]
        rng.shuffle(ops)
        return ops

    def trace_slice(self, rng, traced: bool) -> list[Op]:
        return [self._op(kind, rng) for kind in self.ROUND]

    def peak_rss_mb(self, outcomes) -> float:
        return _self_rss_mb()


def expression_count(letters: int, size_cap: int) -> int:
    """Regular expressions of at most `size_cap` nodes: letters, 0 and 1
    at size 1; a star adds one node, + and . join two subtrees."""
    by_size = {1: letters + 2}
    for s in range(2, size_cap + 1):
        by_size[s] = by_size[s - 1] + 2 * sum(
            by_size[i] * by_size[s - 1 - i] for i in range(1, s - 1))
    return sum(by_size.values())


class KleeneWorkload:
    """Bounded Kleene-algebra exactness and gap reports on fresh alphabets."""

    name = "kleene"
    in_process = True

    # (letters, expression cap, word cap) -> repetitions per round
    # the median falls well inside the (2, 6, 2) block and p90 inside the
    # (2, 6, 4) block, so neither sits on a boundary between kinds
    ROUND = {(2, 7, 2): 1, (3, 6, 2): 3, (3, 6, 3): 1,
             (2, 6, 2): 66, (2, 6, 3): 14, (2, 6, 4): 16}
    LAST_KIND = "ka-2-7-2"

    def setup(self, seed: int, work: Path):
        from finrep import kleene
        from finrep.fset import FiniteSet

        self.kleene, self.FiniteSet = kleene, FiniteSet
        # two label sets per alphabet size, so operations repeat and their
        # report bytes can be compared
        rng = np.random.default_rng([seed, 3])
        self.labels = {k: [_letters(rng, k) for _ in range(2)] for k in (2, 3)}
        # warm-up on a small cap, so numpy and the module code are loaded
        self._op((2, 4, 2), rng).call()

    def _op(self, shape, rng) -> Op:
        letters, cap, words = shape
        pool = self.labels[letters]
        labels = pool[int(rng.integers(0, len(pool)))]
        kleene, FiniteSet = self.kleene, self.FiniteSet

        def call():
            # a fresh carrier per operation: nothing is looked up from an
            # earlier operation's carriers or language tables
            alphabet = FiniteSet("A", labels)
            return _verdicts([kleene.ka_semantic_exactness(alphabet, cap, words)]
                             + kleene.ka_completeness_report(alphabet, cap, words).verdicts)

        n_words = sum(letters ** i for i in range(words + 1))
        first = labels[0]
        return Op(
            f"ka {''.join(labels)} size {cap} words {words}", f"ka-{letters}-{cap}-{words}",
            lambda: _inprocess(call), 0,
            [("semantic-exactness", True), ("axiom-instances-sound", True),
             ("completeness-gap", True)],
            # acceptance pins: the expression count at cap 7 over two letters
            # is 22140, and the first gap is ("a", "(a.a*)") up to renaming
            witnesses={"completeness-gap": (first, f"({first}.{first}*)")},
            notes={"semantic-exactness":
                   f"{expression_count(letters, cap)} expressions, {n_words} words",
                   "completeness-gap": "not derivable"},
        )

    def round(self, rng) -> list[Op]:
        ops = [self._op(shape, rng) for shape, reps in self.ROUND.items() for _ in range(reps)]
        rng.shuffle(ops)
        # cap-7 operations go last: their transient then always lands on the
        # whole round's cache growth, and the peak does not move with the
        # shuffle
        ops.sort(key=lambda op: op.kind == self.LAST_KIND)
        return ops

    def trace_slice(self, rng, traced: bool) -> list[Op]:
        shapes = [(3, 6, 2), (2, 6, 2), (2, 6, 3), (2, 6, 4), (2, 7, 2)]
        return [self._op(shape, rng) for shape in shapes]

    def peak_rss_mb(self, outcomes) -> float:
        return _self_rss_mb()


WORKLOADS = {w.name: w for w in (CliWorkload, ProbeChecksWorkload, KleeneWorkload)}
