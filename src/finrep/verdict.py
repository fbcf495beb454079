"""Verdicts and law reports.

Every checker in the workbench reports through these two shapes, and a
law report is also what every command renders: its subject, its verdicts,
the finite scope they were checked under and, for a sampled scope, the
seed.  Witnesses always name elements by label, never by index.  A report
is built once, in one constructor call, and frozen; a scoped or extended
report is a new one (`dataclasses.replace`).  Its `verdicts` stay a list,
because callers concatenate them with their own lists, as the
benchmark's kleene op does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fset import intern


@dataclass(frozen=True)
class Verdict:
    law: str
    ok: bool
    witness: tuple[str, ...] | None = None
    note: str = ""

    def describe(self) -> str:
        mark = "ok" if self.ok else "VIOLATION"
        out = f"{self.law}: {mark}"
        if self.witness is not None:
            out += " at (" + ", ".join(self.witness) + ")"
        if self.note:
            out += f"  [{self.note}]"
        return out


def first_violation(law: str, cases, describe, note: str = "") -> Verdict:
    """The first failing case of `law`, else a pass noted `note`.

    `cases` yields `(outcome, case)` pairs in search order and is read no
    further than its first failure.  An outcome is a bool or a verdict,
    whose witness the violation keeps; the violation is noted
    `describe(case)`.
    """
    for outcome, case in cases:
        if isinstance(outcome, Verdict):
            if not outcome.ok:
                return Verdict(law, False, outcome.witness, describe(case))
        elif not outcome:
            return Verdict(law, False, note=describe(case))
    return Verdict(law, True, note=note)


@dataclass(frozen=True)
class LawReport:
    subject: str
    verdicts: list[Verdict] = field(default_factory=list)
    scope: str = ""
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def first_failure(self) -> Verdict | None:
        for v in self.verdicts:
            if not v.ok:
                return v
        return None

    def describe(self) -> str:
        lines = [f"{self.subject}: {'pass' if self.passed else 'FAIL'}"]
        lines += ["  " + v.describe() for v in self.verdicts]
        if self.scope:
            lines.append(f"  scope: {self.scope}")
        return "\n".join(lines)


def checked_once(obj, subject: str, laws) -> LawReport:
    """The report of `obj`'s laws under `subject`.  `laws(obj)` runs on the
    first call only and its verdicts are interned on `obj`, whose other
    fields are frozen; replacing a field gives a new object, checked
    afresh.  Each call returns a report with a fresh list of the verdicts,
    which no later call sees."""
    return LawReport(subject, list(intern(("laws", obj), lambda: tuple(laws(obj)))))


def require(report: LawReport) -> None:
    """Refuse, naming the first failing law, unless `report` passed."""
    bad = report.first_failure
    if bad is not None:
        raise ValueError(f"{report.subject} fails {bad.describe()}")
