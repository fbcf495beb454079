"""Run the checked-in mutants of `mutants.json` against the tests that must
kill them.

Each mutant names a file under `src/`, an exact snippet of it, the snippet's
replacement and the test ids that must fail once the replacement is made.
For one mutant the runner copies `src/` to a temporary directory, replaces
the snippet there (a snippet that does not occur exactly once is an
error), and runs the named tests with the copy first on `PYTHONPATH`.  The
mutant is killed when a named test fails and survives when they all pass.
A mutant that changes no behaviour carries `"equivalent": "<one-line
reason>"`: it must survive, and it is counted apart from the survivors.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py ID ...     # the named ones

It prints one line per mutant (an equivalent one with its reason), the
killed, survived and equivalent counts per module of `src/finrep`, and the
survivors.  It exits 1 if any mutant survived, 2 on a snippet that does
not match, a test run that neither passed nor failed, or an equivalent
mutant that its tests kill.  It is not part of tier-1: each mutant costs
one pytest process.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "mutants.json"


class MutantError(Exception):
    """A mutant that cannot be applied, or whose tests neither pass nor fail."""


def load() -> list[dict]:
    return json.loads(DATA.read_text(encoding="utf-8"))


def mutate(text: str, mutant: dict) -> str:
    """`text` with the mutant's snippet replaced, refused unless the
    snippet occurs exactly once."""
    found = text.count(mutant["snippet"])
    if found != 1:
        raise MutantError(f"{mutant['id']}: snippet occurs {found} times in {mutant['file']}")
    return text.replace(mutant["snippet"], mutant["replacement"])


def survives(mutant: dict, timeout: float = 600) -> bool:
    """Whether every test the mutant names passes on a mutated copy of `src/`."""
    if not mutant["file"].startswith("src/"):
        raise MutantError(f"{mutant['id']}: {mutant['file']} is not under src/")
    with tempfile.TemporaryDirectory(prefix="finrep-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = Path(tmp) / mutant["file"]
        target.write_text(mutate(target.read_text(encoding="utf-8"), mutant), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant["tests"]],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    if run.returncode not in (0, 1):  # 1: a test failed; anything else: no verdict
        raise MutantError(f"{mutant['id']}: pytest exited {run.returncode}\n{run.stdout[-2000:]}{run.stderr[-2000:]}")
    return run.returncode == 0


OUTCOMES = ("killed", "survived", "equivalent")


def outcome(mutant: dict, alive: bool) -> str:
    """One of `OUTCOMES` for a mutant that did or did not survive its
    tests; a mutant listed as equivalent must survive."""
    if "equivalent" not in mutant:
        return "survived" if alive else "killed"
    if not alive:
        raise MutantError(f"{mutant['id']}: listed as equivalent, yet its tests kill it")
    return "equivalent"


def main(argv: list[str]) -> int:
    mutants = load()
    known = {m["id"] for m in mutants}
    unknown = [i for i in argv if i not in known]
    if unknown:
        print(f"unknown mutant ids: {', '.join(unknown)}", file=sys.stderr)
        return 2
    counts, survivors = defaultdict(Counter), []
    for mutant in mutants:
        if argv and mutant["id"] not in argv:
            continue
        try:
            got = outcome(mutant, survives(mutant))
        except (MutantError, subprocess.TimeoutExpired) as err:
            print(f"error      {mutant['id']}: {err}", file=sys.stderr)
            return 2
        reason = f" ({mutant['equivalent']})" if got == "equivalent" else ""
        print(f"{got.upper() if got == 'survived' else got:<10} {mutant['id']}{reason}", flush=True)
        counts[Path(mutant["file"]).stem][got] += 1
        if got == "survived":
            survivors.append(mutant["id"])
    print("per module, " + "/".join(OUTCOMES) + ":")
    for module, c in sorted(counts.items(), key=lambda mc: (-mc[1].total(), mc[0])):
        print(f"  {module} " + "/".join(str(c[o]) for o in OUTCOMES))
    total = sum(counts.values(), Counter())
    print("total " + "/".join(str(total[o]) for o in OUTCOMES))
    print(f"survivors: {', '.join(survivors) if survivors else 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
