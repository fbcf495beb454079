"""The mutation runner of `mutants.py` on a mutant of one line that
changes the reported labels and must die, and on the checked-in equivalent
mutants, which must survive.  Every checked-in mutant must apply to the
source as it is; the runner itself is run by hand (`python3
tests/mutants.py`)."""

import pytest

import mutants

_EXACTNESS = ["tests/test_kleene.py::test_exactness_on_classes_matches_dense"]


def _pick(replacement: str) -> dict:
    return {"id": replacement, "file": "src/finrep/kleene.py", "snippet": "exprs.pick(first)",
            "replacement": replacement, "tests": _EXACTNESS}


def test_a_changed_mutant_dies_and_an_equivalent_one_survives():
    assert not mutants.survives(_pick("exprs.pick(first[::-1])"))
    equivalent = [m for m in mutants.load() if "equivalent" in m]
    assert equivalent and all(mutants.survives(m) for m in equivalent)


def test_an_equivalent_mutant_is_counted_apart_and_must_survive():
    changed, same = _pick("exprs.pick(first[::-1])"), {**_pick("x"), "equivalent": "same labels"}
    assert [mutants.outcome(changed, False), mutants.outcome(changed, True), mutants.outcome(same, True)] == [
        "killed", "survived", "equivalent"]
    with pytest.raises(mutants.MutantError, match="listed as equivalent, yet its tests kill it"):
        mutants.outcome(same, False)


def test_a_snippet_that_does_not_match_exactly_once_is_an_error():
    with pytest.raises(mutants.MutantError, match="snippet occurs 0 times"):
        mutants.survives({**_pick("x"), "snippet": "exprs.pick(last)"})
    with pytest.raises(mutants.MutantError, match="snippet occurs 2 times"):
        mutants.mutate("a a", {"id": "twice", "file": "f", "snippet": "a", "replacement": "b"})


@pytest.mark.parametrize("mutant", mutants.load(), ids=lambda m: m["id"])
def test_every_checked_in_mutant_applies(mutant):
    path = mutants.ROOT / mutant["file"]
    assert mutant["file"].startswith("src/") and mutant["tests"]
    reason = mutant.get("equivalent", "one line")
    assert reason.strip() and "\n" not in reason, "an equivalent mutant's reason is one nonempty line"
    assert mutants.mutate(path.read_text(encoding="utf-8"), mutant) != path.read_text(encoding="utf-8")
    for test in mutant["tests"]:
        assert (mutants.ROOT / test.split("::")[0]).is_file(), test
