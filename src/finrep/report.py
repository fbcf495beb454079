"""Deterministic rendering of a command's law report.

Both forms carry the same content: the command echo, the report's subject
and per-law verdicts with witnesses named by element label, the finite
scope the claim was checked under, the sampling seed when one was used,
and the exit status, 0 when every verdict passed and 1 otherwise.
Nothing time- or path-dependent goes in, so identical runs render
identical bytes.
"""

from __future__ import annotations

import json

from .verdict import LawReport


def render_text(command: str, r: LawReport) -> str:
    lines = [f"command: {command}", f"subject: {r.subject}"]
    for v in r.verdicts:
        mark = "ok" if v.ok else "VIOLATION"
        line = f"verdict {v.law}: {mark}"
        if v.note:
            line += f"  [{v.note}]"
        lines.append(line)
        if v.witness is not None:
            lines.append("witness: (" + ", ".join(v.witness) + ")")
    if r.scope:
        lines.append(f"scope: {r.scope}")
    if r.seed is not None:
        lines.append(f"seed: {r.seed}")
    lines.append(f"exit: {0 if r.passed else 1}")
    return "\n".join(lines) + "\n"


def render_structured(command: str, r: LawReport) -> str:
    tree = {
        "command": command,
        "subject": r.subject,
        "verdicts": [
            {
                "law": v.law,
                "ok": v.ok,
                "witness": None if v.witness is None else list(v.witness),
                "note": v.note,
            }
            for v in r.verdicts
        ],
        "scope": r.scope,
        "seed": r.seed,
        "exit": 0 if r.passed else 1,
    }
    return json.dumps(tree, indent=2) + "\n"


def render(command: str, r: LawReport, fmt: str) -> str:
    assert fmt in ("text", "structured")
    return render_text(command, r) if fmt == "text" else render_structured(command, r)
