"""The mutation runner of `mutants.py` on two mutants of one line: one
that changes the reported labels and must die, and an equivalent one that
must survive.  Every checked-in mutant must apply to the source as it is;
the runner itself is run by hand (`python3 tests/mutants.py`)."""

import pytest

import mutants

_EXACTNESS = ["tests/test_kleene.py::test_exactness_on_classes_matches_dense"]


def _pick(replacement: str) -> dict:
    return {"id": replacement, "file": "src/finrep/kleene.py", "snippet": "exprs.pick(first)",
            "replacement": replacement, "tests": _EXACTNESS}


def test_a_changed_mutant_dies_and_an_equivalent_one_survives():
    assert not mutants.survives(_pick("exprs.pick(first[::-1])"))
    assert mutants.survives(_pick("exprs.pick(first[::-1])[::-1]"))


def test_a_snippet_that_does_not_match_exactly_once_is_an_error():
    with pytest.raises(mutants.MutantError, match="snippet occurs 0 times"):
        mutants.survives({**_pick("x"), "snippet": "exprs.pick(last)"})
    with pytest.raises(mutants.MutantError, match="snippet occurs 2 times"):
        mutants.mutate("a a", {"id": "twice", "file": "f", "snippet": "a", "replacement": "b"})


@pytest.mark.parametrize("mutant", mutants.load(), ids=lambda m: m["id"])
def test_every_checked_in_mutant_applies(mutant):
    path = mutants.ROOT / mutant["file"]
    assert mutant["file"].startswith("src/") and mutant["tests"]
    assert mutants.mutate(path.read_text(encoding="utf-8"), mutant) != path.read_text(encoding="utf-8")
    for test in mutant["tests"]:
        assert (mutants.ROOT / test.split("::")[0]).is_file(), test
